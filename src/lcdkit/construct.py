"""Construction engines that turn codes into LCD codes or grow LCD codes.

Contents:

* hull-pivot shortening: an [n,k,d] code with an l-dimensional hull has
  an LCD [n-l, k-l, >=d] shortening on the hull's pivot coordinates;
* hull-guided puncturing: when l < d, puncturing the same coordinate set
  keeps the dimension and yields an LCD [n-l, k, >=d-l] code;
* two extension methods, both built by extend: method 1 prepends a
  coordinate and a dual row (1|x; 0|G), method 2 stacks a dual row y on
  top of G.  Over GF(2), GF(3) and Hermitian GF(4) each is LCD exactly
  when the new row's self-pairing, a function of the extension vector's
  weight, is nonzero, and each odd-like binary LCD code arises this way
  (decompose_m1 inverts method 1);
* a deterministic search over extension vectors, ranked by the exact
  minimum distance they achieve.

Construction records serialize chains of these steps so published
results can be replayed bit-exactly.
"""

from __future__ import annotations

import random
import warnings
from dataclasses import dataclass

import numpy as np

from . import enumeration, linalg
from .codes import (
    EmptyCode,
    CodeError,
    LinearCode,
    dual,
    hull,
    is_even_like,
    is_lcd,
    min_weight,
    parse_vector,
    shorten,
    puncture,
)
from .enumeration import _weigh
from .gf import FieldSpec

M1 = "m1"
M2 = "m2"


class ConstructError(CodeError):
    pass


class NotLcd(ConstructError):
    """Operation requires an LCD input code."""


class NotInDual(ConstructError):
    pass


class WeightCondition(ConstructError):
    pass


class NotDecomposable(ConstructError):
    pass


class NoCandidate(ConstructError):
    pass


def weight_condition(field: FieldSpec, method: str, weight: int) -> bool:
    """The weight test that makes an extension LCD.

    The new row pairs to zero with C, so the extension is LCD exactly when
    the row's self-pairing is nonzero: its weight mod p (3 over GF(3), 2
    over GF(2) and Hermitian GF(4)), plus 1 for method 1's leading 1.
    ``weight`` may also be a numpy array of weights, tested elementwise.
    """
    if method not in (M1, M2):
        raise ConstructError(f"unknown method {method!r}")
    p = 3 if field.order == 3 else 2
    return weight % p != (p - 1 if method == M1 else 0)


def extension_vector(C: LinearCode, vector, method: str) -> np.ndarray:
    """The vector as uint8, checked for length, symbols, dual membership and the weight condition."""
    v = np.asarray(vector)
    if v.shape != (C.n,):
        got = f"{v.size} symbols" if v.ndim == 1 else f"shape {v.shape}"
        raise ConstructError(f"extension vector has {got}, expected {C.n}")
    try:
        v = linalg.as_matrix(C.field, v)[0]
    except linalg.LinalgError as exc:
        raise ConstructError(f"extension vector entry is not an element of {C.field.name}: {exc}") from None
    if linalg.pairing_matrix(C.generator, v.reshape(1, -1), C.field).any():
        raise NotInDual("vector does not pair to zero with every generator row")
    w = int((v != 0).sum())
    if not weight_condition(C.field, method, w):
        raise WeightCondition(f"weight {w} violates the method-{method[1]} condition for {C.field.name}")
    return v


# -- hull-based constructions ---------------------------------------------


def shorten_to_lcd(C: LinearCode) -> tuple[LinearCode, tuple[int, ...]]:
    """Shorten on the hull pivot set; LCD [n-l, k-l] with distance >= d."""
    h = hull(C)
    if h.dim == 0:
        return C, ()
    if h.dim == C.k:
        raise EmptyCode("the code is self-orthogonal; shortening on the hull leaves nothing")
    S = shorten(C, h.pivot_set)
    if S.params() != (C.n - h.dim, C.k - h.dim) or not is_lcd(S):
        raise linalg.InvariantError("shortening on the hull pivot set is not an LCD [n-l, k-l] code")
    return S, h.pivot_set


def puncture_to_lcd(C: LinearCode, cap: int | None = None, threads: int = 1) -> tuple[LinearCode, tuple[int, ...]]:
    """Puncture on the hull pivot set; LCD [n-l, k] with distance >= d-l.

    Requires l < d so the dimension survives; the minimum distance of C
    is computed (codes.min_weight under ``cap``) to check this precondition.
    """
    h = hull(C)
    if h.dim == 0:
        return C, ()
    d = min_weight(C, cap=cap, threads=threads)
    if h.dim >= d:
        raise ConstructError(f"hull dimension {h.dim} is not below the minimum distance {d}")
    P = puncture(C, h.pivot_set)
    if P.params() != (C.n - h.dim, C.k) or not is_lcd(P):
        raise linalg.InvariantError("puncturing on the hull pivot set is not an LCD [n-l, k] code")
    return P, h.pivot_set


# -- extension methods ------------------------------------------------------


def extend(C: LinearCode, x, method: str) -> LinearCode:
    """LCD extension of C by the dual vector x: [n+1, k+1] (1 x; 0 G) for method 1, [n, k+1]
    (x; G) for method 2.

    x is checked first (extension_vector: length, symbols, dual membership,
    method, weight), so when both x and C are bad the vector's error is
    reported.  The new row r pairs to zero with every row of G, so
    Gram(out) = diag(<r, r>, Gram(C)), and the weight test makes <r, r>
    nonzero: out is LCD exactly when C is.  One LCD test of out therefore
    decides both; only when it fails is C tested, to tell NotLcd (C is not
    LCD) from InvariantError (the extension is wrong).  Method 1's all-zero
    vector warns after that test, so a non-LCD C raises without warning.
    """
    v = extension_vector(C, x, method)
    lead = 1 if method == M1 else 0  # method 1's new first coordinate
    g = np.zeros((C.k + 1, C.n + lead), dtype=np.uint8)
    g[0, :lead] = 1
    g[0, lead:] = v
    g[1:, lead:] = C.generator
    g.setflags(write=False)
    out = LinearCode(C.field, g)
    if not is_lcd(out):
        if not is_lcd(C):
            raise NotLcd(f"method {method[1]} extends LCD codes only")
        raise linalg.InvariantError(f"the method-{method[1]} extension is not LCD")
    if lead and not v.any():
        warnings.warn("all-zero extension vector: the result is LCD but its minimum distance is 1")
    return out


def extend_m1(C: LinearCode, x) -> LinearCode:
    """[n+1, k+1] LCD extension with generator (1 x; 0 G)."""
    return extend(C, x, M1)


def extend_m2(C: LinearCode, y) -> LinearCode:
    """[n, k+1] LCD extension with generator (y; G)."""
    return extend(C, y, M2)


def pad_zero_column(C: LinearCode) -> LinearCode:
    """[n+1, k] with a zero column appended; Gram, LCD status and minimum
    weight are untouched."""
    g = np.hstack([C.generator, np.zeros((C.k, 1), dtype=np.uint8)])
    g.setflags(write=False)
    return LinearCode(C.field, g)


# -- completeness direction -------------------------------------------------


def project_split(v, C: LinearCode) -> tuple[np.ndarray, np.ndarray]:
    """Split v = c + h with c in C and h in the dual; needs C LCD.

    c = xG pairs with G as v does, so x Gram = <v, G>, and the split exists
    and is unique exactly when Gram is invertible (C LCD).  One elimination
    (linalg.kernel_image) of the (k+1) x (k+1+n) matrix [Gram 0 G; <v, G> 1 0],
    split after its k pairing columns, spans {(t, xG) : x Gram + t <v, G> = 0}:
    for an LCD code that is the single RREF row (1, -c), and otherwise two
    rows or a leading 0.
    """
    v = np.asarray(v, dtype=np.uint8)
    F, G, k = C.field, C.generator, C.k
    M = np.zeros((k + 1, k + 1 + C.n), dtype=np.uint8)
    M[:, :k] = linalg.pairing_matrix(np.vstack([G, v]), G, F)
    M[:-1, k + 1 :] = G
    M[-1, k] = 1
    res = linalg.kernel_image(M, k, F)
    if res.pivots != (0,):
        raise NotLcd("the ambient space splits only for LCD codes")
    row = res.matrix[0, 1:]
    return F.neg_table[row], F.add_table[v, row]


def decompose_m1(Cp: LinearCode) -> tuple[int, LinearCode, np.ndarray]:
    """Invert method 1 on an odd-like binary LCD code.

    Finds the first coordinate i whose shortening S (codes.shorten) is an
    LCD [n-1, k-1] code.  A generator row u that is 1 at i, without
    coordinate i, splits against S into an even-weight dual part x, and
    method 1 on x rebuilds the input with coordinate i moved to the front.
    Two such rows differ by a word of S, so x does not depend on the row.
    Per coordinate tried, one elimination shortens and one splits and tests S for LCD.
    """
    if Cp.field.order != 2:
        raise ConstructError("decomposition is defined for binary codes")
    if Cp.k < 2:
        raise ConstructError("decomposition needs dimension at least 2")
    if not is_lcd(Cp):
        raise NotLcd("input must be LCD")
    if is_even_like(Cp):
        raise ConstructError("input must be odd-like")
    for i in range(Cp.n):
        column = Cp.generator[:, i]
        if not column.any():
            continue  # coordinate untouched by the code: no dimension drop
        S = shorten(Cp, (i,))
        if S.k != Cp.k - 1:
            raise linalg.InvariantError(f"shortening on coordinate {i} has dimension {S.k}, not {Cp.k - 1}")
        u = np.delete(Cp.generator[column.argmax()], i)  # the first row that is 1 at i
        try:
            _, x = project_split(u, S)
        except NotLcd:
            continue
        if not weight_condition(Cp.field, M1, int((x != 0).sum())):
            raise linalg.InvariantError("the residual dual component has odd weight")
        return i, S, x
    raise NotDecomposable("no coordinate shortens to an LCD code")


# -- extension search --------------------------------------------------------


@dataclass(frozen=True)
class SearchResult:
    vector: np.ndarray
    code: LinearCode
    min_weight: int
    exact: bool
    exhaustive: bool
    candidates: int
    target_met: bool | None


# candidates in the first batch of a search, which is scored a batch at a
# time; each later batch holds twice as many, up to SEARCH_BATCH, and is
# scored only for a score above the best so far.  The search stops at the
# first batch that reaches d(C).  Coset listings are held for the whole
# search (enumeration._CosetListings), so a small batch costs little more
# than its candidates, and a small first batch stops close to an early
# winner.  SEARCH_BATCH bounds an exhaustive search's memory and the words
# of a held listing.  Exhaustive searches with listings held, median of 15
# interleaved rounds on a 2-core x86-64 host, first batch 2^6 / 2^7 / 2^8
# / 2^10, largest 2^17: t_19_6_9 M1 3.9, 4.2, 3.7, 4.2 ms (its winner lies
# between candidates 3,072 and 4,096); M2 (best 8) 42, 43, 42, 42 ms; a
# random binary LCD [32,10] code M1 2.0, 2.2, 2.2, 2.3 ms; a random binary
# LCD [60,40] code M2 (its winner reaches d(C) = 5 in the first batch) 27,
# 41, 68, 235 ms.  t_20_6_10 (best below d(C) = 10, so every batch is
# scored) read 143, 162, 137, 142 ms by M1 and 172, 187, 175, 166 ms by
# M2, within this host's spread of about 30 ms: at 2^7 and at 2^10 it
# takes the same distances to within 0.2%.  perfbench's four search ops
# (t_19_6_9 M1 exhaustive and sampled, a GF(4)H [14,6] exhaustive and a
# binary [70,10] sampled search) took 25.2, 24.6, 24.6 and 26.0 ms
# together, in the same rounds
FIRST_BATCH = 1 << 7
SEARCH_BATCH = 1 << 17

# 32-bit words per chunk of the sampled draw.  random_raw hands them out as
# uint64, so a chunk's temporaries stay within 512 KiB, in cache, however
# large the budget.  t_19_6_9's 50,000 sampled messages (866,730 words),
# median of 100 interleaved rounds on a 2-core x86-64 host: 2^14 words
# 5.37 ms, 2^15 5.20, 2^16 5.07, 2^17 5.07, 2^18 5.51, 2^19 5.56, 2^20 (8
# MiB) 5.86 ms.  The same words read as uint32 (a Generator's full-range
# integers) halve the shift and cast but cost more to draw: 7.8 ms against
# 7.4, slower in 312 of 400 interleaved pairs
DRAW_CHUNK_WORDS = 1 << 16


def _draw_messages(q: int, m: int, count: int, seed: int) -> np.ndarray:
    """``count`` messages of ``m`` digits: the digits of ``count * m`` calls
    to ``random.Random(seed).randrange(q)``, drawn in bulk.

    randrange(q) takes the top q.bit_length() bits of one 32-bit word of
    the Mersenne Twister per try and retries values >= q.  numpy's MT19937,
    loaded with random.Random(seed)'s state, hands out the same words
    (random_raw), so the digit stream is read a chunk of words at a time,
    with no Python int per draw.  numpy.random is touched only here, since
    numpy loads it on first use.
    """
    key = random.Random(seed).getstate()[1]
    mt = np.random.MT19937(0)
    mt.state = {"bit_generator": "MT19937", "state": {"key": np.array(key[:-1], dtype=np.uint32), "pos": key[-1]}}
    bits = q.bit_length()
    count = max(count, 0)
    need = count * m
    out = np.empty(need, dtype=np.uint8)
    done = 0
    while done < need:
        words = min((need - done) * (1 << bits) // q + 64, DRAW_CHUNK_WORDS)
        raw = mt.random_raw(words)
        raw >>= 32 - bits
        raw = raw.astype(np.uint8)  # compress is several times faster on uint8
        digits = np.compress(raw < q, raw)[: need - done]
        out[done : done + digits.size] = digits
        done += digits.size
    return out.reshape(count, m)


def _best_scores(
    listings: enumeration._CosetListings, cand: np.ndarray, d_base: int, bonus: int, least: int
) -> tuple[int, np.ndarray, bool]:
    """The best score min(d_base, coset minimum + bonus), the candidates
    reaching it, and whether every coset listing was complete.

    Thresholds t count down from d_base, which caps every score; at each
    level only candidates whose known upper bound still reaches t are
    scanned, in Brouwer-Zimmermann order (the search's ``listings`` at
    floor t - bonus), and the survivors of the first level that has any
    score exactly t.  The descent stops once t falls below ``least``, so a
    score returned below ``least`` is only an upper bound on the best.
    With every listing complete the scores are exact, otherwise upper
    bounds.
    """
    q = listings.q
    bound = np.full(cand.shape[-1], d_base, dtype=np.uint16)  # upper bound on every score
    t, active, complete = d_base, None, True  # the first level scans every candidate
    while t > bonus and t >= least:  # nothing can score below the bonus
        stages, listed_all = listings(t - bonus)
        complete &= listed_all
        low = enumeration._coset_floor(q, cand, active, t - bonus, stages)
        alive = low >= t - bonus
        if alive.any():
            return t, np.flatnonzero(alive) if active is None else active[alive], complete
        bound[... if active is None else active] = low + bonus
        t = int(bound.max())  # every bound is now below t
        active = np.flatnonzero(bound >= t)
    return t, np.flatnonzero(bound >= t), complete


def _joined(pieces):
    """The packed pieces concatenated and cut into batches, FIRST_BATCH
    vectors first and each later batch twice the one before, up to
    SEARCH_BATCH; the last batch may hold fewer.  A piece is read only
    once the pieces before it cannot fill the batch."""
    size, held, count = min(FIRST_BATCH, SEARCH_BATCH), [], 0
    for piece in pieces:
        held.append(piece)
        count += piece.shape[-1]
        if count < size:
            continue
        joined, start = held[0] if len(held) == 1 else np.concatenate(held, axis=-1), 0
        while count - start >= size:
            yield joined[..., start : start + size]
            start += size
            size = min(2 * size, SEARCH_BATCH)
        held, count = [joined[..., start:]], count - start
    if count:
        yield np.concatenate(held, axis=-1)


def _candidates(C: LinearCode, passes: np.ndarray, budget: int, seed: int, threads: int):
    """(exhaustive, count, batches): whether every dual vector is a
    candidate, how many dual vectors pass (``passes[w]``, the weight
    condition of weight w), and the packed passing vectors the search
    scores, in lexicographic order, in the batches of _joined.

    With q^m <= ``budget`` (m = n - k, the dual's dimension) every dual
    vector is a candidate, counted from the dual's weight distribution
    (_count_candidates), and one of each projective class is scored:
    message 0 and the messages whose top nonzero digit is 1, built a block
    at a time only as the batches are read.  Otherwise ``budget`` messages
    are drawn (_draw_messages), each is keyed once by its message number
    (enumeration._message_numbers), and the codewords of the distinct
    numbers (enumeration.codewords_at) that pass are counted and scored.
    """
    q = C.field.order
    dgen = dual(C).generator
    m = dgen.shape[0]
    # digit j multiplies row m - 1 - j, so message order is lexicographic order
    tables = enumeration.codeword_tables(C.field, dgen[::-1])

    def passing(words):
        return np.compress(passes[_weigh(words)], words, axis=-1)

    if q**m <= budget:
        ranges = enumeration._projective_ranges(q, m, 0)
        blocks = (w for lo, hi in ranges for _, w in enumeration.codeword_blocks(q, tables, lo, hi))
        return True, _count_candidates(C.field, passes, dgen, tables, threads), _joined(map(passing, blocks))
    numbers = enumeration._message_numbers(q, _draw_messages(q, m, budget, seed))
    cand = passing(enumeration.codewords_at(q, tables, numbers))
    return False, cand.shape[-1], _joined([cand])


def _count_candidates(field: FieldSpec, passes: np.ndarray, dgen: np.ndarray, tables: list[np.ndarray], threads: int) -> int:
    """How many dual vectors pass (``passes[w]``), from the dual's weight
    distribution; a direct scan reads ``tables``, built from dgen's rows in
    any order, as a distribution does not depend on it."""
    counts = enumeration._exhaustive(field, dgen, field.order ** dgen.shape[0], True, threads, tables)[1]
    return sum(a for a, ok in zip(counts, passes) if ok)


def search_extend(
    C: LinearCode,
    method: str,
    target: int | None = None,
    budget: int = 100_000,
    seed: int = 0,
    cap: int | None = None,
    threads: int = 1,
) -> SearchResult:
    """Deterministic search for the best extension vector.

    Enumerates the dual exhaustively when it fits in ``budget`` messages,
    otherwise draws ``budget`` messages with ``random.Random(seed)``,
    digit by digit as ``randrange(q)`` would; the digits are read in bulk
    from numpy's MT19937 loaded with that generator's state
    (_draw_messages).  ``budget`` below 1 or ``seed`` below 0 raises
    ConstructError.  Every candidate that passes the weight condition is
    scored with the minimum distance of the extended code, min(d(C), the
    minimum weight of the coset x + C, plus 1 for method 1), and ties
    break toward the lexicographically smallest vector.  d(C) comes from
    codes.min_weight under ``cap``.  Cosets are scanned in
    Brouwer-Zimmermann order: for each matrix of C's information-set
    chain, x is reduced to the coset word that vanishes on the matrix's
    pivots, and the words of C of information weight 0, 1, ... are added,
    every scalar tuple, until the chain's lower bound on the words not yet
    listed reaches the threshold.  A listing past ``cap`` words is cut to
    the first matrix's levels that fit (enumeration._bz_order) and scores
    upper bounds; the result is exact when d(C) was decided and no listing
    was cut.

    Candidates are scored in lexicographic order, so the winner is the
    first one to reach the best score.  The dual's generator is its RREF
    (codes.dual), so a codeword's symbol at row i's pivot is its digit d_i
    and its symbols before row i + 1's pivot depend on d_0 .. d_i only:
    codewords compare as their digit tuples (d_0, ..., d_m-1) do.  An
    exhaustive search builds its codeword tables from the rows reversed,
    so message order is that order, and scores one candidate per
    projective class x, 2x, ... (message 0 and the messages whose top
    nonzero digit is 1).  That candidate's first nonzero symbol is 1, so it
    is the smallest of its class; scaling preserves the weight and every
    listing is closed under scaling, so its multiples tie with it.
    The weight condition is decided once per search, for weights 0 .. n,
    before any work.  ``candidates`` counts every dual vector that passes,
    from the dual's weight distribution, before any is scored.  A sampled
    search keys each draw by its message number, drops duplicate numbers,
    sorts the rest (enumeration._message_numbers) and counts the codewords
    gathered for them that pass (_candidates).

    Scoring is pruned by threshold: a candidate is dropped as soon as one
    of its coset words shows that it cannot reach the best score still
    possible.  The candidates are scored a batch at a time, FIRST_BATCH
    first and each later batch twice the one before, up to SEARCH_BATCH; a
    later batch is scored only for a score above the best so far, and the
    search stops at the first batch that reaches d(C), since no score is
    above it.  Results never depend on batch size.

    The coset listing of a floor t - bonus depends on nothing else while a
    search runs (C's chain and ``cap`` are fixed), so each floor's is
    planned once per search and, when it has at most SEARCH_BATCH words
    (no more than the largest batch), listed once and held for every
    batch and level that asks for that floor (enumeration._CosetListings).
    A small batch then costs little more than its candidates, and the
    search stops close to its winner.  A larger listing is listed again
    each time it is asked for.
    """
    passes = weight_condition(C.field, method, np.arange(C.n + 1))  # an unknown method fails before any work
    if not is_lcd(C):
        raise NotLcd("search extends LCD codes only")
    if budget < 1:
        raise ConstructError(f"search budget must be at least 1, got {budget}")
    if seed < 0:
        raise ConstructError(f"search seed must be at least 0, got {seed}")
    q = C.field.order
    exhaustive, candidates, batches = _candidates(C, passes, budget, seed, threads)
    if not candidates:
        raise NoCandidate(f"no dual vector satisfies the method-{method[1]} weight condition")
    cap = enumeration.DEFAULT_CAPS[q] if cap is None else cap
    try:
        d_base, decided = min_weight(C, cap=cap, threads=threads), True
    except enumeration.BudgetExceeded as exc:
        d_base, decided = (exc.best_upper if exc.best_upper is not None else C.n), False
    # a listing no larger than the largest batch is held for the whole search
    listings = enumeration._CosetListings(q, C.k, enumeration._coset_chain(C.field, C.generator), cap, SEARCH_BATCH)
    bonus = 1 if method == M1 else 0
    best_score, best, complete = -1, None, True
    for cand in batches:
        score, top, listed_all = _best_scores(listings, cand, d_base, bonus, best_score + 1)
        complete &= listed_all
        if score > best_score:
            best_score, best = score, enumeration.unpack_matrix(np.take(cand, top[:1], axis=-1), C.n)[0]
        if best_score == d_base:  # nothing scores above d_base
            break
    code = extend(C, best, method)
    exact = decided and complete
    return SearchResult(
        vector=best,
        code=code,
        min_weight=best_score,
        exact=exact,
        exhaustive=exhaustive,
        candidates=candidates,
        target_met=None if target is None else bool(exact and best_score >= target),
    )


# -- construction records ---------------------------------------------------
#
#   base <entry id or code file path>
#   shorten 1,5,9        (coordinates are 1-based in the text form)
#   puncture 2
#   extend-m1 <symbols>
#   extend-m2 <symbols>
#   pad

STEP_OPS = ("shorten", "puncture", "extend-m1", "extend-m2", "pad")


@dataclass(frozen=True)
class Step:
    op: str
    arg: str | None = None


@dataclass(frozen=True)
class ConstructionRecord:
    base: str
    steps: tuple[Step, ...]


def parse_record(text: str) -> ConstructionRecord:
    base = None
    steps = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(None, 1)
        op = parts[0]
        arg = parts[1].strip() if len(parts) > 1 else None
        if op == "base":
            if base is not None:
                raise ConstructError("record has more than one base line")
            if arg is None:
                raise ConstructError("base line needs a reference")
            base = arg
        elif op in STEP_OPS:
            if base is None:
                raise ConstructError("record must start with its base reference")
            if op == "pad" and arg is not None:
                raise ConstructError("pad takes no argument")
            if op != "pad" and arg is None:
                raise ConstructError(f"{op} needs an argument")
            if op in ("shorten", "puncture"):
                _coords_from_text(arg)  # fail fast on malformed coordinates
            steps.append(Step(op, arg))
        else:
            raise ConstructError(f"unknown record line {line!r}")
    if base is None:
        raise ConstructError("record is missing its base reference")
    return ConstructionRecord(base, tuple(steps))


def format_record(rec: ConstructionRecord) -> str:
    lines = [f"base {rec.base}"]
    for s in rec.steps:
        lines.append(s.op if s.arg is None else f"{s.op} {s.arg}")
    return "\n".join(lines) + "\n"


def _coords_from_text(arg: str) -> tuple[int, ...]:
    parts = arg.replace(" ", "").split(",")
    if not all(p.isascii() and p.isdecimal() for p in parts):  # no sign, underscore or other script
        raise ConstructError(f"bad coordinate list {arg!r}")
    coords = tuple(int(p) for p in parts)
    if any(c < 1 for c in coords):
        raise ConstructError("record coordinates are 1-based")
    return tuple(c - 1 for c in coords)


def apply_step(C: LinearCode, step: Step) -> LinearCode:
    if step.op == "shorten":
        return shorten(C, _coords_from_text(step.arg))
    if step.op == "puncture":
        return puncture(C, _coords_from_text(step.arg))
    if step.op in ("extend-m1", "extend-m2"):
        return extend(C, parse_vector(C.field, step.arg), step.op[len("extend-") :])
    if step.op == "pad":
        return pad_zero_column(C)
    raise ConstructError(f"unknown step {step.op!r}")


def apply_record(rec: ConstructionRecord, base_code: LinearCode) -> list[LinearCode]:
    """Replay a record; returns the code after every step (base excluded)."""
    out = []
    current = base_code
    for step in rec.steps:
        current = apply_step(current, step)
        out.append(current)
    return out
