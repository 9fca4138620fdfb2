"""Arithmetic for the three small fields used by the toolkit.

GF(4) is always Hermitian GF(4): every pairing conjugates its right
operand by x -> x^2 (every linear code over GF(q), q > 3, is equivalent to
a Euclidean LCD code, so Euclidean GF(4) poses no bound problem).

Field elements are integer indices 0..q-1.  For GF(4) the indices encode
the polynomial basis over GF(2) with w = x mod (x^2 + x + 1):

    0 -> 0,  1 -> 1,  2 -> w,  3 -> w^2

so that addition of indices is XOR.  All arithmetic is table driven; the
tables are numpy arrays and can be fancy-indexed with whole vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# text alphabets, one symbol per element index
_ALPHABETS = {2: "01", 3: "012", 4: "01wW"}


class FieldError(ValueError):
    """Invalid field construction or mixed-field operands."""


_FOREIGN = 0xFF  # the decode table's byte for a symbol outside the alphabet


@lru_cache(maxsize=None)
def _decode_table(order: int) -> bytes:
    """A bytes.translate table: each alphabet byte to its element index, every other byte to _FOREIGN."""
    table = bytearray([_FOREIGN]) * 256
    for i, ch in enumerate(_ALPHABETS[order]):
        table[ord(ch)] = i
    return bytes(table)


@lru_cache(maxsize=None)
def _tables(order: int):
    if order in (2, 3):
        add = np.fromfunction(lambda a, b: (a + b) % order, (order, order), dtype=np.int64)
        mul = np.fromfunction(lambda a, b: (a * b) % order, (order, order), dtype=np.int64)
    else:
        # GF(4) = GF(2)[x]/(x^2+x+1), index bits are polynomial coefficients
        def poly_mul(a, b):
            r = 0
            for i in range(2):
                if (b >> i) & 1:
                    r ^= a << i
            if (r >> 2) & 1:
                r ^= 0b111  # reduce x^2 -> x + 1
            return r & 0b11

        add = np.fromfunction(lambda a, b: a.astype(int) ^ b.astype(int), (4, 4), dtype=np.int64)
        mul = np.array([[poly_mul(a, b) for b in range(4)] for a in range(4)])
    neg = np.array([np.nonzero(add[a] == 0)[0][0] for a in range(order)])
    inv = np.zeros(order, dtype=np.int64)
    for a in range(1, order):
        inv[a] = np.nonzero(mul[a] == 1)[0][0]
    conj = np.arange(order)
    if order == 4:
        conj = np.array([0, 1, 3, 2])  # x -> x^2 swaps w and w^2
    out = {}
    for name, t in [("add", add), ("mul", mul), ("neg", neg), ("inv", inv), ("conj", conj)]:
        t = t.astype(np.uint8)
        t.setflags(write=False)
        out[name] = t
    return out


@dataclass(frozen=True)
class FieldSpec:
    """A field order in {2, 3, 4}; order 4 pairs against the conjugate x -> x^2."""

    order: int

    def __post_init__(self):
        if self.order not in (2, 3, 4):
            raise FieldError(f"unsupported field order {self.order}")

    # -- table access ----------------------------------------------------
    @property
    def add_table(self) -> np.ndarray:
        return _tables(self.order)["add"]

    @property
    def mul_table(self) -> np.ndarray:
        return _tables(self.order)["mul"]

    @property
    def neg_table(self) -> np.ndarray:
        return _tables(self.order)["neg"]

    @property
    def inv_table(self) -> np.ndarray:
        return _tables(self.order)["inv"]

    @property
    def conj_table(self) -> np.ndarray:
        """Coordinatewise conjugation: x -> x^2 over GF(4), the identity below it."""
        return _tables(self.order)["conj"]

    # -- text I/O ----------------------------------------------------------
    @property
    def alphabet(self) -> str:
        return _ALPHABETS[self.order]

    @property
    def name(self) -> str:
        return "gf4h" if self.order == 4 else f"gf{self.order}"

    def parse_symbols(self, text: str) -> np.ndarray:
        """The element indices of a string of symbols, as a fresh uint8 array.

        FieldError names the first symbol outside the alphabet; its
        ``position`` attribute is that symbol's index in ``text``.
        """
        # every character outside ASCII encodes to one '?', so byte i is character i
        data = text.encode("ascii", "replace").translate(_decode_table(self.order))
        bad = data.find(_FOREIGN)
        if bad >= 0:
            exc = FieldError(f"symbol {text[bad]!r} not in alphabet {self.alphabet!r} of {self.name}")
            exc.position = bad
            raise exc
        return np.frombuffer(data, dtype=np.uint8).copy()

    def format_symbol(self, value: int) -> str:
        return self.alphabet[value]

    def __repr__(self):
        return f"FieldSpec({self.name})"


GF2 = FieldSpec(2)
GF3 = FieldSpec(3)
GF4H = FieldSpec(4)

FIELDS_BY_NAME = {"gf2": GF2, "gf3": GF3, "gf4h": GF4H}


def field_by_name(name: str) -> FieldSpec:
    try:
        return FIELDS_BY_NAME[name]
    except KeyError:
        raise FieldError(f"unknown field name {name!r}; expected one of {sorted(FIELDS_BY_NAME)}") from None
