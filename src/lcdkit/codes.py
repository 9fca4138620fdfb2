"""Linear codes over GF(2)/GF(3)/GF(4) and their core queries.

A LinearCode is an immutable full-rank generator matrix tagged with its
field.  Queries cover: dual and hull computation, the LCD test, the
shortening/puncturing constructions, exact minimum weight and weight
distribution (exhaustive or Brouwer-Zimmermann), binary even/odd-like
classification, and the text file format used by the corpus and the CLI.

Coordinates are 0-based throughout the API; the text formats (code files
and construction records) are 1-based so they stay visually comparable
with published tables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import enumeration, linalg
from .gf import FieldError, FieldSpec, field_by_name

# re-exported: callers catch budget errors from this module
BudgetExceeded = enumeration.BudgetExceeded

EXHAUSTIVE = "exhaustive"
BROUWER_ZIMMERMANN = "bz"


class CodeError(ValueError):
    pass


class EmptyCode(CodeError):
    """A construction produced the zero code."""


@dataclass(frozen=True, eq=False)
class LinearCode:
    field: FieldSpec
    generator: np.ndarray  # (k, n) uint8, full rank; stored as given

    @property
    def n(self) -> int:
        return self.generator.shape[1]

    @property
    def k(self) -> int:
        return self.generator.shape[0]

    def params(self) -> tuple[int, int]:
        return (self.n, self.k)

    def __repr__(self):
        return f"LinearCode({self.field.name}, [{self.n},{self.k}])"


def _frozen(m: np.ndarray) -> np.ndarray:
    m = np.array(m, dtype=np.uint8)
    m.setflags(write=False)
    return m


def new_code(field: FieldSpec, matrix) -> LinearCode:
    """Validate and wrap a generator matrix; no silent normalization."""
    m = linalg.as_matrix(field, matrix)
    if m.size == 0 or m.shape[0] == 0:
        raise CodeError("generator matrix must be nonempty")
    k, n = m.shape
    if k > n:
        raise CodeError(f"dimension {k} exceeds length {n}")
    if linalg.rank(m, field) != k:
        for i in range(1, k + 1):
            if linalg.rank(m[:i], field) < i:
                raise CodeError(f"generator row {i} is linearly dependent on the rows above it")
    return LinearCode(field, _frozen(m))


def dual(C: LinearCode) -> LinearCode:
    """The [n, n-k] dual under the field's inner product (Hermitian over GF(4)).

    Its generator is the dual's RREF basis (linalg.nullspace), which the
    extension search relies on to enumerate candidates in lexicographic
    order.  For k = n the result is the zero-dimensional code, which is
    legal only as an output (its generator has no rows).
    """
    basis = linalg.nullspace(C.generator, C.field)
    return LinearCode(C.field, _frozen(basis.reshape(-1, C.n)))


@dataclass(frozen=True)
class HullInfo:
    basis: np.ndarray  # RREF
    dim: int
    pivot_set: tuple[int, ...]


def hull(C: LinearCode) -> HullInfo:
    """C ∩ C^perp from one elimination of [Gram | G].

    xG pairs to zero with every row of G iff x Gram = 0, Hermitian GF(4)
    included (Gram = G conj(G)^T), so the hull is {xG : x Gram = 0}, the
    kernel image of [Gram | G] split after its k Gram columns
    (linalg.kernel_image); an LCD code unpacks no row.
    """
    M = np.concatenate([linalg.gram(C.generator, C.field), C.generator], axis=1)
    res = linalg.kernel_image(M, C.k, C.field)
    return HullInfo(_frozen(res.matrix), res.rank, res.pivots)


def is_lcd(C: LinearCode) -> bool:
    if C.k == 0:
        return True
    return linalg.rank(linalg.gram(C.generator, C.field), C.field) == C.k


def _check_coords(C: LinearCode, T) -> tuple[list[int], list[int]]:
    """T sorted without repeats, and the coordinates it leaves, in order."""
    chosen = {int(t) for t in T}
    keep = [c for c in range(C.n) if c not in chosen]
    T = sorted(chosen)
    if len(T) + len(keep) != C.n:  # some t is not a coordinate
        bad = next(t for t in T if not 0 <= t < C.n)
        raise CodeError(f"coordinate {bad} out of range for length {C.n}")
    return T, keep


def shorten(C: LinearCode, T) -> LinearCode:
    """Codewords vanishing on T, with the T coordinates deleted.

    These are {xG' : xG_T = 0} for G' = G without the T columns, so one
    elimination of the columns gathered once as [G_T | G'], split after
    the T columns, gives the shortening's RREF (linalg.kernel_image;
    T = empty set returns C unchanged).
    """
    T, keep = _check_coords(C, T)
    if not T:
        return C
    res = linalg.kernel_image(C.generator[:, T + keep], len(T), C.field)
    if res.rank == 0:
        raise EmptyCode(f"shortening on {len(T)} coordinates leaves no nonzero codeword")
    return LinearCode(C.field, _frozen(res.matrix))


def puncture(C: LinearCode, T) -> LinearCode:
    """Delete the T coordinates from every codeword (RREF generator)."""
    T, keep = _check_coords(C, T)
    if not T:
        return C
    basis = linalg.row_space_basis(C.generator[:, keep], C.field)
    if basis.shape[0] == 0:
        raise EmptyCode("puncturing deleted every nonzero coordinate")
    return LinearCode(C.field, _frozen(basis))


def min_weight(C: LinearCode, strategy: str = EXHAUSTIVE, cap: int | None = None, threads: int = 1) -> int:
    """Exact minimum nonzero Hamming weight.

    ``exhaustive`` enumerates the smaller of C and its dual when C's q^k
    codewords fit in ``cap`` (default enumeration.DEFAULT_CAPS); a scan of
    the dual goes through the MacWilliams transform, checked for
    non-negative integer counts, A_0 = 1 and sum q^k
    (enumeration.min_weight_exhaustive).  Past the cap, and always for
    ``bz``, Brouwer-Zimmermann decides under the same cap, typically
    listing far fewer codewords.  When it lists more than the cap, it
    raises BudgetExceeded carrying the best weight seen, an upper bound.
    """
    if strategy not in (EXHAUSTIVE, BROUWER_ZIMMERMANN):
        raise CodeError(f"unknown strategy {strategy!r}")
    cap = enumeration.DEFAULT_CAPS[C.field.order] if cap is None else cap
    if strategy == EXHAUSTIVE and C.field.order**C.k <= cap:
        return enumeration.min_weight_exhaustive(C.field, C.generator, cap=cap, threads=threads)
    return enumeration.min_weight_bz(C.field, C.generator, cap=cap)


@dataclass(frozen=True)
class WeightDistribution:
    counts: tuple[int, ...]  # A_0 .. A_n
    min_weight: int

    def nonzero(self) -> list[tuple[int, int]]:
        return [(i, c) for i, c in enumerate(self.counts) if c]


def weight_distribution(C: LinearCode, cap: int | None = None, threads: int = 1) -> WeightDistribution:
    if C.k == 0:
        raise ValueError("the zero code has no nonzero codewords")
    counts = enumeration.weight_distribution_exhaustive(C.field, C.generator, cap=cap, threads=threads)
    d = next(i for i in range(1, len(counts)) if counts[i])
    return WeightDistribution(tuple(counts), d)


def is_even_like(C: LinearCode) -> bool:
    """True iff every codeword has even weight (binary codes only).

    Row weights suffice: weights add mod 2 under GF(2) vector addition.
    """
    if C.field.order != 2:
        raise CodeError("even/odd-like classification is defined for binary codes only")
    return all(int(row.sum()) % 2 == 0 for row in C.generator)


# -- text file format ------------------------------------------------------
#
#   line 1:  field n k          (field in {gf2, gf3, gf4h})
#   then k rows of n symbols (whitespace between symbols optional)
#   '#' starts a comment line


def parse_code(text: str) -> LinearCode:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise CodeError("empty code file")
    head = lines[0].split()
    if len(head) != 3:
        raise CodeError(f"malformed header {lines[0]!r}; expected 'field n k'")
    name, n_s, k_s = head
    try:
        field = field_by_name(name)
        n, k = int(n_s), int(k_s)
    except FieldError as exc:
        raise CodeError(str(exc)) from None
    except ValueError:
        raise CodeError(f"malformed header {lines[0]!r}") from None
    if len(lines) - 1 != k:
        raise CodeError(f"expected {k} matrix rows, found {len(lines) - 1}")
    rows = [ln.replace(" ", "").replace("\t", "") for ln in lines[1:]]
    # a bad symbol above the first row of the wrong length is reported first
    short = next((i for i, row in enumerate(rows) if len(row) != n), k)
    try:
        symbols = field.parse_symbols("".join(rows[:short]))
    except FieldError as exc:
        raise CodeError(f"row {exc.position // n + 1}: {exc}") from None
    if short < k:
        raise CodeError(f"row {short + 1} has {len(rows[short])} symbols, expected {n}")
    # k = 0 leaves n unchecked (it may be negative); new_code refuses the empty matrix
    return new_code(field, symbols.reshape(k, n) if k else symbols)


def format_code(C: LinearCode) -> str:
    field = C.field
    lines = [f"{field.name} {C.n} {C.k}"]
    for row in C.generator:
        lines.append("".join(field.format_symbol(int(v)) for v in row))
    return "\n".join(lines) + "\n"


def read_ascii(path) -> str:
    """The text of an ASCII file; CodeError if it holds any other byte."""
    try:
        with open(path, encoding="ascii") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise CodeError(f"{path}: not an ASCII text file ({exc})") from None


def read_code_file(path) -> LinearCode:
    return parse_code(read_ascii(path))


def write_code_file(path, C: LinearCode) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_code(C))


def parse_vector(field: FieldSpec, text: str) -> np.ndarray:
    return field.parse_symbols(text.strip().replace(" ", "").replace("\t", ""))


def format_vector(field: FieldSpec, vec) -> str:
    return "".join(field.format_symbol(int(v)) for v in vec)
